"""Few-shot prompt-context learning for frozen vision-language backbones.

Learnable context vectors are optimized against a composite objective:
cross-entropy on the support set, a consistency pull toward the mean of a
generated-prompt ensemble, and knowledge distillation from an
outlier-pruned teacher ensemble. Encoders stay frozen throughout; only
the context moves.
"""

from .backbone import (
    CachedVisionSource,
    SyntheticTextEncoder,
    SyntheticVisionEncoder,
    encode_text_bank,
    encode_text_with_context,
    init_context,
)
from .ensemble import (
    PromptScoreReport,
    mad_zscores,
    mean_ensemble,
    prompt_scores,
    select_prompts,
    selected_ensemble,
)
from .errors import BmcoopError, ConfigError, DataError, NetworkError, NumericError
from .evaluation import accuracy, base_novel_split, harmonic_mean, write_run_report
from .io import (
    load_catalog,
    load_manifest,
    load_prompt_bank,
    read_embedding_cache,
    write_embedding_cache,
    write_prompt_bank,
)
from .objective import (
    LossBreakdown,
    class_probabilities,
    loss_gradient,
    predict,
    prepare_support,
    sccm_loss,
    student_scores,
    total_loss,
)
from .promptgen import LlmEndpointConfig, build_query, fetch_prompts
from .trainer import (
    TrainState,
    load_checkpoint,
    sample_few_shot,
    save_checkpoint,
    train_run,
)
from .types import (
    ClassCatalog,
    DatasetManifest,
    EmbeddingMatrix,
    PromptBank,
    RunConfig,
)

__version__ = "0.1.0"
