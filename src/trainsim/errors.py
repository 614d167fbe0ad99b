"""Exception types shared across the package."""


class ShapeMismatch(ValueError):
    """Tensor or layer dimensions are inconsistent."""


class InvalidLayer(ValueError):
    """A layer's own parameters are unusable (e.g. kernel larger than padded input)."""


class InvalidPlan(ValueError):
    """A tile plan violates its constraints for the given layer."""


class PlanMismatch(ValueError):
    """A tile plan does not line up with the network it is applied to."""


class Infeasible(RuntimeError):
    """No plan fits within the device budget."""


class RegionMismatch(ValueError):
    """A DRAM region's size does not match the tensor being packed."""


class OutOfRange(IndexError):
    """A coordinate falls outside its tensor."""


class MissingIndices(ValueError):
    """Max-pool backward called without the recorded argmax codes."""


class StaleState(RuntimeError):
    """Batch-norm backward called without a matching forward pass."""


class LabelOutOfRange(ValueError):
    """A class label is outside [0, classes)."""


class ConfigError(ValueError):
    """A config file is missing, unparsable, or schema-invalid."""
