"""Squared probabilistic circuits.

Tensorized circuits built from tree region graphs, layer-wise squaring,
exact normalization/marginalization/sampling in signed log-space,
maximum-likelihood training, and reductions from PSD kernel models and
matrix-product states.
"""

from pcsq.errors import (
    ConfigError,
    DegenerateModelError,
    DomainError,
    IngestError,
    NumericError,
    PcsqError,
    PreconditionError,
    UnsupportedStructureError,
)
from pcsq.regions import (
    RegionGraph,
    build_binary_tree,
    build_linear_tree,
    linear_tree_from_order,
)
from pcsq.circuits import (
    Layer,
    ParameterStore,
    TensorizedCircuit,
    check_property,
    circuit_size,
    from_region_graph,
)
from pcsq.slog import SignedLogTensor, signed_logsumexp, signed_product
from pcsq.engine import Tape, backward, forward, log_grad_seed
from pcsq.squaring import SquaredCircuit, square, square_deterministic
from pcsq.inference import (
    Query,
    evaluate,
    log_density,
    log_likelihood,
    marginalize,
    partition_function,
    sample,
)
from pcsq.mixtures import CircuitMixture
from pcsq.learning import TrainConfig, TrainReport, init_parameters, train
from pcsq.reductions import (
    Graph,
    MpsFactorization,
    PsdModel,
    cp_decompose,
    jacobi_eigh,
    mps_to_circuit,
    psd_to_circuit,
    udisj_circuit,
    udisj_matrix,
)
from pcsq.data import Dataset, generate_synthetic, ingest_csv

__version__ = "0.1.0"
