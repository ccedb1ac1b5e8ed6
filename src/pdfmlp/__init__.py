"""pdfmlp: static PDF malware detection with a from-scratch MLP.

The pipeline: parse_pdf turns any bytes into a tolerant object graph,
extract_features maps it to a fixed 48-feature vector, the preprocess
module standardizes and splits datasets, mlp/train implement the
classifier and its SGD training loop, evaluate sweeps thresholds, and
store persists the whole thing in one versioned file.
"""

__version__ = "0.1.0"

from .evaluate import EvalReport, evaluate, pick_threshold
from .features import (
    N_FEATURES,
    SCHEMA_ID,
    FeatureSchema,
    FeatureVector,
    describe_schema,
    extract_features,
    shannon_entropy,
)
from .mlp import (
    BatchNormState,
    DenseLayer,
    MlpModel,
    backward,
    build_model,
    cross_entropy,
    forward,
    predict,
    sgd_step,
)
from .pdf import (
    DiagnosticKind,
    ParseDiagnostic,
    PdfDocument,
    PdfName,
    PdfRef,
    PdfStream,
    PdfString,
    decode_stream,
    iter_name_occurrences,
    parse_pdf,
)
from .preprocess import (
    Dataset,
    Scaler,
    fit_scaler,
    read_features_csv,
    split_train_validation,
    transform,
    write_features_csv,
)
from .store import load, save
from .train import TrainConfig, TrainReport, train

__all__ = [
    "BatchNormState",
    "Dataset",
    "DenseLayer",
    "DiagnosticKind",
    "EvalReport",
    "FeatureSchema",
    "FeatureVector",
    "MlpModel",
    "N_FEATURES",
    "ParseDiagnostic",
    "PdfDocument",
    "PdfName",
    "PdfRef",
    "PdfStream",
    "PdfString",
    "SCHEMA_ID",
    "Scaler",
    "TrainConfig",
    "TrainReport",
    "backward",
    "build_model",
    "cross_entropy",
    "decode_stream",
    "describe_schema",
    "evaluate",
    "extract_features",
    "fit_scaler",
    "forward",
    "iter_name_occurrences",
    "load",
    "parse_pdf",
    "pick_threshold",
    "predict",
    "read_features_csv",
    "save",
    "sgd_step",
    "shannon_entropy",
    "split_train_validation",
    "train",
    "transform",
    "write_features_csv",
]
