"""Exact algebra of double forms: products, contractions, double Hodge
star, composition product, invariant families, and a mechanically verified
suite of the classical and generalized identities they satisfy."""

__version__ = "0.1.0"

from . import scalars
from .dform import (
    DoubleForm,
    bianchi_residual,
    compose,
    compose_power,
    contract,
    contract_iter,
    contract_with_metric,
    hodge,
    inner,
    metric,
    metric_power,
    one,
    transpose,
    wedge,
    wedge_power,
)
from .exterior import (
    ExteriorForm,
    MultiForm,
    hodge_form,
    hodge_multi,
    wedge_form,
    wedge_multi,
)

__all__ = [
    "DoubleForm", "ExteriorForm", "MultiForm", "bianchi_residual", "compose",
    "compose_power", "contract", "contract_iter", "contract_with_metric",
    "hodge", "hodge_form", "hodge_multi", "inner", "metric", "metric_power",
    "one", "scalars", "transpose", "wedge", "wedge_form", "wedge_multi",
    "wedge_power", "__version__",
]
