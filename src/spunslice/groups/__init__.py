"""Group-theoretic machinery: presentations, coset enumeration, finite
groups, quaternionic models, and representation counting."""

from .presentations import (  # noqa: F401
    GroupPresentation,
    abelianization,
    branched_cover_presentation,
    cobordism_presentation,
    format_presentation,
    reidemeister_schreier_index2,
    wirtinger,
)
from .snf import (  # noqa: F401
    AbelianInvariants,
    abelian_invariants,
    elementary_divisors,
    smith_normal_form,
)
from .toddcoxeter import (  # noqa: F401
    CosetResult,
    regular_representation,
    todd_coxeter,
)
from .finite import (  # noqa: F401
    FiniteGroup,
    GroupError,
    StructureReport,
    alternating_group,
    cyclic_group,
    group_closure,
    iso_check,
    sl2_f5,
    structure_report,
    su2_obstruction,
    symmetric_group,
)
from .quaternions import (  # noqa: F401
    icosian_group,
    icosian_involution_lemma,
)
from .homcount import (  # noqa: F401
    CollapseReport,
    HomCount,
    collapse_check,
    hom_count,
)
