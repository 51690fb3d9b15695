"""Dense-tensor CPD via fiber-sampled stochastic gradient solvers."""

from .constraints import Constraint
from .experiments import (
    RunRecord,
    SyntheticSpec,
    generate_synthetic,
    run,
    run_trials,
)
from .sampling import FiberSample, FiberSampler
from .solvers import (
    SOLVERS,
    Adagrad,
    CurvatureEstimate,
    Diminishing,
    LocallyOptimal,
    SolverConfig,
    SolverState,
)
from .storage import read_tensor, write_tensor
from .tensor import (
    DenseTensor,
    KruskalModel,
    frob_norm,
    kr_rows,
    metric,
    mttkrp,
    objective,
    reconstruct,
)

__version__ = "0.1.0"
