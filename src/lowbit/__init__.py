"""lowbit: error-compensated low-bit weight quantization.

A numpy-only library for post-training quantization of dense weight
matrices: all of its linear algebra runs on numpy's BLAS, one thread
pool. Calibration Hessians are accumulated from layer inputs, and the
engines quantize column by column while compensating the still-latent
columns: plain rounding (rtn), a dense second-order reference
(obs_oracle), the triangular-factor production route (gptq), and a
first-order drift correction on top of it (foem).
"""

from .calib import (
    GradientDiagnostics,
    SyntheticSpec,
    approx_gradient,
    exact_proxy_gradient,
    generate_synthetic,
    gradient_alignment,
    mixing_matrix,
)
from .engines import (
    ENGINES,
    EngineConfig,
    LayerBundle,
    first_order_quant_step,
    foem_block_boundary,
    gptq_column_step,
    PreparedLayer,
    run_engine,
)
from .errors import (
    ConfigError,
    FactorizationError,
    LowbitError,
    NumericalError,
    TensorFormatError,
)
from .linalg import (
    HessianState,
    InvCholFactor,
    inverse_cholesky,
    iterative_inverse_update,
    recover_inverse_submatrix,
)
from .quantizer import (
    FIRST_ORDER_SIGNS,
    GroupScale,
    QuantGrid,
    QuantizedLayer,
    fit_scales,
    quantize_values,
    rtn_quantize,
)
from .report import LayerReport, compare_table, proxy_loss
from .tensorio import TensorFile, load_quantized, save_quantized, save_tensors

__version__ = "0.1.0"
