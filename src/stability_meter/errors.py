"""Exception types shared across the pipeline."""


class StabilityMeterError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StabilityMeterError):
    """Invalid configuration value (window sizes, profiles, flag combinations)."""


class SettingError(ConfigError):
    """A setting out of range; each ``{}`` of ``template`` stands for one of ``settings``, in turn."""

    def __init__(self, template: str, *settings: str) -> None:
        super().__init__(template.format(*settings))
        self.template, self.settings = template, settings


def require_at_least(bound: int, **settings: int) -> None:
    """Raise a :class:`SettingError` for the first of ``settings`` below ``bound``."""
    for setting, value in settings.items():
        if value < bound:
            raise SettingError(f"{{}} must be >= {bound}, got {value}", setting)


class LogFormatError(StabilityMeterError):
    """Structurally malformed input log (missing columns, bad timestamps)."""


class LogValueError(StabilityMeterError):
    """Malformed value in an otherwise well-formed log row."""


class EmptyLogError(StabilityMeterError):
    """The input log contains no events."""


class NotReadyError(StabilityMeterError):
    """A model was asked to predict before it received any training."""
