"""Multi-modal set fusion: permutation-invariant pooling over
variable-cardinality feature modalities, with interpretable max-pool
feature importance, a full training stack, and a concatenation baseline."""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DatasetManifest, ModalityInstance, Sample, SyntheticConfig,
                   generate_synthetic, load_dataset, load_dataset_dir, save_dataset)
from .errors import (ConfigError, DataError, EmptySetError, MMSetsError, NumericError)
from .evaluate import evaluate_model, predict_scores, run_kfold
from .fusion import (ConcatModel, FusionModel, ImportanceRecord, ModalitySpec, ModelConfig,
                     aggregate_importance, build_set)
from .metrics import (EvalReport, UndefinedMetricError, accuracy_suite, export_fim,
                      f1_suite, roc_auc)
from .tensor import POOL_MODES, Tape, Tensor, backward
from .training import (AdamWState, ScheduleConfig, TrainConfig, adamw_step,
                       init_classifier_bias, inverse_sqrt_class_weights, kfold_split,
                       lr_at, train, weighted_sigmoid_ce)

__version__ = "0.1.0"
