"""Simply-laced Chevalley toolkit.

Root systems with a fixed numbering, structure constants computed two
independent ways, root-element actions on the adjoint module, and orbit
classification of the level-1 module under the level-0 subgroup over odd
prime fields — with a brute-force enumeration harness to validate the
classifier.
"""

from .census import (
    BudgetExceeded,
    MismatchReport,
    OrbitCensus,
    OrbitEntry,
    crosscheck,
    enumerate_orbits,
    predicted_census,
)
from .chevalley import (
    InconsistentTable,
    JacobiViolation,
    StructureConstantTable,
    UndefinedPair,
    UnderdeterminedTable,
    build_table_oracle,
    jacobi_check,
    sign_rule,
    structure_constant_fast,
    verify_table,
)
from .gfield import (
    INTEGERS,
    ArrayField,
    ExactIntegers,
    NormClass,
    NotPrime,
    PrimeField,
    SquareClass,
    UnsupportedField,
    is_prime,
    k_class_equal,
    norm_class_of,
    norm_class_reps,
    norm_form_solvable,
    square_class,
)
from .liemod import (
    LieVector,
    ZeroScalar,
    apply_root_element,
    apply_word,
    bracket,
    inverse_word,
    w_apply_fast,
    w_word,
    weyl_word,
)
from .orbitlab import (
    CharTwo,
    ClassificationError,
    InvalidDescriptor,
    Luminosity,
    NotTraceZero,
    OrbitDescriptor,
    Sl2Invariant,
    UnsupportedFamily,
    ZBlock,
    act_on_v1,
    al_pair,
    all_descriptors,
    associated_root_element,
    block_gammas,
    canonical_form,
    classify,
    classify_many,
    luminosity,
    same_orbit,
    sl2_invariant,
    sl2_invariant_matrix,
    z_blocks,
)
from .rootsys import (
    NotAPositiveRoot,
    NotARoot,
    RootSystem,
    SystemTooLarge,
    UnsupportedSystem,
    build_root_system,
    min_subtractable_index,
    parse_system_name,
    reflect,
    root_count,
    simple_index,
    standard_quadruple,
)

__version__ = "0.1.0"
