"""Slice curves on spun-knot decker sets, branched double covers, and
embedding-obstruction certificates for twisted mirror doubles."""

__version__ = "0.1.0"

from .diagrams import (  # noqa: F401
    ChordDiagram,
    PDCode,
    PlatError,
    PlatWord,
    TwistVector,
    build_symmetric_union,
    chord_diagram_of_tangle,
    format_plat,
    parse_plat,
    plat_to_pd,
    validate_plat,
)
from .covers import (  # noqa: F401
    alexander_det,
    alexander_polynomial,
    cobordism_linking_matrix,
    goeritz,
    goeritz_determinant,
    is_definite,
    surgery_description,
)
from .decker import (  # noqa: F401
    DeckerSet,
    SliceCurve,
    criterion_report,
    spin_plat,
    symmetric_union_curve,
    trace_double_curve,
    validate_curve,
)
from .certificate import (  # noqa: F401
    AXIOMS,
    Certificate,
    CertifyConfig,
    CertifyError,
    certificate_json,
    certify,
    format_certificate,
)
from .corpus import (  # noqa: F401
    CorpusError,
    CorpusReport,
    corpus_run,
    format_corpus_report,
    shipped_manifest_path,
)
from .render import (  # noqa: F401
    render_chord_diagram,
    render_decker,
    render_pd,
    render_plat,
)
