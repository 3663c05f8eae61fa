"""Exception types shared across the package, and the bound checks that raise them."""


class DomainError(ValueError):
    """A physical quantity is outside its valid domain.

    Raised by model-level functions (negative variance, efficiency outside
    (0, 1], non-positive frequency, and so on). ``keys`` names the field
    whose value broke the rule first, then any other fields the rule
    compares it with; the config parser uses them to point at the line
    that set the value.
    """

    def __init__(self, message: str, *keys: str) -> None:
        super().__init__(message)
        self.keys = keys


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent.

    Raised by the config parser and by cross-field validation. Messages
    name the offending key and the violated bound, and include the line
    number when the error comes from a config file.
    """


def require(ok: bool, key: str, value, rule, *related: str) -> None:
    """Raise a DomainError naming ``key``, its value and ``rule`` unless ``ok``.

    ``rule`` is the text of the bound. ``related`` lists the other fields
    a cross-field rule compares with.
    """
    if not ok:
        raise DomainError(f"{key} = {value!r} violates bound: {rule}", key, *related)


def check_efficiency(key: str, value: float) -> None:
    """Reject a power efficiency outside (0, 1]; NaN fails the comparison."""
    require(0.0 < value <= 1.0, key, value, "must lie in (0, 1]")
