from .adam import Adam
from .embedding import EmbeddingTable
from .functional import bce_loss, mse_loss, relu, sigmoid, task_loss
from .gradcheck import GradCheckResult, grad_check
from .models import build_model, embedding_dims
from .training import make_epoch_batches, predict_scores, train_model

__all__ = [
    "Adam",
    "EmbeddingTable",
    "GradCheckResult",
    "bce_loss",
    "build_model",
    "embedding_dims",
    "grad_check",
    "make_epoch_batches",
    "mse_loss",
    "predict_scores",
    "relu",
    "sigmoid",
    "task_loss",
    "train_model",
]
