"""gglab: exact verification of groupoid actions, invariants, and the
Galois correspondence machinery built on them."""

from .linalg import Subspace
from .fields import Field, FieldError
from .groupoid import Groupoid, GroupoidError, Subgroupoid, validate_groupoid
from .algebra import Algebra, AlgebraError, validate_algebra
from .action import Action, ActionError, validate_action
from .instances import BUILTIN_NAMES, Instance, load_builtin, load_instance
from .suite import run_suite

__version__ = "0.1.0"

# gglab has one row-reduction kernel, in Python (``_purerref``).
BACKEND = "python"

__all__ = [
    "BACKEND",
    "BUILTIN_NAMES",
    "Action",
    "ActionError",
    "Algebra",
    "AlgebraError",
    "Field",
    "FieldError",
    "Groupoid",
    "GroupoidError",
    "Instance",
    "Subgroupoid",
    "Subspace",
    "load_builtin",
    "load_instance",
    "run_suite",
    "validate_action",
    "validate_algebra",
    "validate_groupoid",
]
