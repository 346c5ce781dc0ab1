"""Virtual braid closures: Gauss diagrams, chord-index invariants, and
explicit crossing-change unknotting sequences."""

from .braid import (
    BraidLetter,
    BraidParseError,
    BraidWord,
    LetterKind,
    Rewrite,
    RewriteError,
    RewriteKind,
    apply_rewrite,
    classical,
    component_count,
    make_ijk,
    make_vt,
    parse_braid,
    parse_family,
    permutation,
    rewrite_moves,
    virtual,
)
from .gauss import (
    GaussCodeError,
    GaussDiagram,
    MultiComponentError,
    Role,
    emit_gauss_code,
    flip,
    gauss_from_closure,
    normalize_positive,
    parse_gauss_code,
)
from .invariants import (
    IndexPolynomial,
    bound_from_p,
    chord_index,
    crossing_index,
    p_invariant,
    poly_to_string,
    u_and_p,
    u_invariant,
    vu_lower_bound,
)
from .search import (
    ScanRecord,
    ScanSummary,
    TableRow,
    default_table_pairs,
    scan_torus_virtualizations,
    summarize_scan,
    table_to_csv,
    table_vt2,
    torus_word,
    virtualize_subset,
)
from .unknotting import (
    IJKState,
    NotAKnotError,
    StepKind,
    TerminalStateError,
    UnknottingSequence,
    UnknottingStep,
    VerifyReport,
    VerifyRow,
    knot_parameter_triples,
    next_step,
    unknotting_sequence,
    verify_row,
    verify_theorem2,
)

__version__ = "0.1.0"
