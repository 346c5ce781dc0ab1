"""Virtual braid closures: Gauss diagrams, chord-index invariants, and
explicit crossing-change unknotting sequences.

The five layer modules are registered lazily (``importlib.util.LazyLoader``):
``vknot.braid`` and the rest are in ``sys.modules`` from the start, but a
layer's code runs on the first access to one of its attributes.  So each
command of ``vknot.cli`` runs only the layers it uses.  The public names
below resolve through their layer on first access (PEP 562).
"""

import importlib.util
import sys

_EXPORTS = {
    "braid": """BraidLetter BraidParseError BraidWord LetterKind classical
        component_count make_ijk make_vt parse_braid parse_family virtual""",
    "gauss": """GaussCodeError GaussDiagram MultiComponentError Role
        emit_gauss_code flip gauss_from_closure parse_gauss_code""",
    "invariants": """IndexPolynomial bound_from_p chord_index p_invariant
        u_and_p u_invariant vu_lower_bound""",
    "search": """ScanRecord ScanSummary TableRow default_table_pairs
        scan_torus_virtualizations table_to_csv table_vt2 torus_word""",
    "unknotting": """IJKState NotAKnotError StepKind TerminalStateError
        UnknottingSequence UnknottingStep VerifyReport VerifyRow next_step
        unknotting_sequence verify_row verify_theorem2""",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _register_lazily(layer: str):
    """``vknot.<layer>`` in ``sys.modules``, its code not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _register_lazily(_layer)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
