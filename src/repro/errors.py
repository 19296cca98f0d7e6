"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class AddressError(ReproError):
    """An address or prefix was malformed or exhausted."""


class TopologyError(ReproError):
    """A topology generator or the simulated network was misconfigured."""


class RoutingError(ReproError):
    """No route exists between two endpoints of the simulated network."""


class MeasurementError(ReproError):
    """A measurement campaign was configured inconsistently."""


class CampaignError(MeasurementError):
    """A campaign could not make progress (fleet exhausted, bad state)."""


class CampaignInterrupted(CampaignError):
    """A campaign was stopped mid-run; a checkpoint holds its progress."""


class CheckpointError(ReproError):
    """A campaign checkpoint file was missing, corrupt, or incompatible."""


class ServiceError(ReproError):
    """The campaign service hit unusable state (corrupt journal, bad spec)."""


class InferenceError(ReproError):
    """The inference pipeline received input it cannot process."""


class SchemaError(ReproError):
    """A JSON artifact was malformed; the message names the JSON path."""


class InvariantViolation(InferenceError):
    """A pipeline stage broke a structural invariant it should establish."""
