"""From-scratch classifiers for per-UE traffic labeling, plus metrics and model files."""

from ranguard.ml.adaboost import AdaBoost, BoostConfig
from ranguard.ml.forest import ForestConfig, RandomForest
from ranguard.ml.metrics import ConfusionMatrix
from ranguard.ml.neighbors import KnnClassifier
from ranguard.ml.store import LoadedModel, Model, ModelFormatError, load_model, save_model
from ranguard.ml.tree import DecisionTree, TreeConfig

__all__ = [
    "AdaBoost",
    "BoostConfig",
    "ConfusionMatrix",
    "DecisionTree",
    "ForestConfig",
    "KnnClassifier",
    "LoadedModel",
    "Model",
    "ModelFormatError",
    "RandomForest",
    "TreeConfig",
    "load_model",
    "save_model",
]
