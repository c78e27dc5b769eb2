"""Model registry: canonical names to predictor factories.

Each factory takes a seed and returns a fresh, unfitted predictor. The llm
and llm-gbt workflows are wired in the CLI because they need a configured
client; everything here is purely local.
"""

from __future__ import annotations

from .bkt import BktModel
from .gbt import GbtModel
from .pfa import PfaModel
from .sparfa import SparfaModel
from .tensor import TensorFactorizationModel

MODEL_CLASSES = {
    "bkt": BktModel,
    "pfa": PfaModel,
    "sparfa": SparfaModel,
    "tensor": TensorFactorizationModel,
    "gbt": GbtModel,
}
LOCAL_MODELS = tuple(MODEL_CLASSES)
ALL_MODELS = LOCAL_MODELS + ("llm", "llm-gbt")


def make_model(name: str, seed: int = 0, **overrides):
    """Build an unfitted predictor by registry name.

    Overrides are passed to the model constructor, e.g.
    ``make_model("gbt", config=GbtConfig(n_trees=50))`` or
    ``make_model("bkt", individualized=True)``.
    """
    if name not in MODEL_CLASSES:
        raise KeyError(f"unknown model {name!r}; local models: {', '.join(LOCAL_MODELS)}")
    return MODEL_CLASSES[name](seed=seed, **overrides)
