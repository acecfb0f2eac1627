"""Structured convolution kernels and their sum-pooling decomposition."""

from .tensor import (
    ConvGeometry,
    ShapeError,
    GeometryError,
    ContainerError,
    conv,
    sum_pool3d,
    linear,
    random_tensor,
    read_tensor,
    write_tensor,
)
from .composite import (
    BasisError,
    CompositeBasis,
    CompositeKernel,
    check_linear_independence,
    compose_kernel,
    conv_composite,
    count_composite_ops,
)
from .structured import (
    ConfigError,
    ResidualError,
    SidecarError,
    StructuredConfig,
    StructureMatrix,
    DecomposedLayer,
    decompose,
    decomposed_layer,
    extract_alpha,
    forward_decomposed,
    generate_structured_basis,
    load_decomposed_layer,
    project,
    reconstruct,
    save_decomposed_layer,
    worst_kernel_residual,
)
from .analyzer import (
    CostReport,
    LayerSpec,
    NetworkCostReport,
    NetworkSpecError,
    aggregate,
    count_ops_instrumented,
    generate_config,
    layer_costs,
    parse_network_spec,
)
from .training import (
    DegenerateWeightError,
    DivergenceError,
    ToyDataset,
    ToyModel,
    ToyModelSpec,
    TrainingConfig,
    TrainLog,
    decompose_model,
    evaluate,
    make_toy_dataset,
    save_train_log,
    sr_grad,
    sr_loss,
    train,
)

__version__ = "0.1.0"
