"""ternkit: ternary-weight embedding models at desk scale.

Quantize dense linear layers to {-1, 0, +1} with a beta-scaled threshold,
written straight into two bit planes (the one stored ternary form; there is
no int8 trit type), recover accuracy by self-distillation from the
full-precision model, execute the result through a bit-plane kernel (every product is by -1, 0 or
+1, so each is exact, the sum accumulates in float64, and gamma and bias
touch each output once), and measure embedding quality with built-in
nearest-neighbor retrieval.
"""

from .ann import (HnswParams, IvfParams, LshParams, VectorStore, evaluate_retrieval,
                  flat_search, hnsw_build, hnsw_search, ivf_build, ivf_search,
                  lsh_build, lsh_search, recall_vs_exact)
from .distill import (AdamState, TaskSpec, TrainConfig, adam_step, distill,
                      holdout_split, lr_at, make_synthetic_teacher, mse_loss,
                      teacher_student_mse)
from .encoder import (EncoderConfig, EncoderModel, LinearLayer, MODE_FULL,
                      MODE_TERNARY, PackedEncoder, export_packed, model_digest,
                      replace_linears)
from .packed import PackedTernaryMatrix, packed_gemm
from .rng import Rng
from .storage import storage_bytes
from .tensor import gaussian_fill, gelu, layer_norm, matmul
from .ternary import beta_sweep, compute_threshold, sparsity, ternarize

__version__ = "0.1.0"
