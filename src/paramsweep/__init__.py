"""Parameter-homotopy sweep engine for parameterized polynomial systems.

Solves a family F(z, p) = 0 at many parameter points: one generic solve at
a random complex start point, then one cheap path-tracking run per target
point, with automatic retries from fresh random start parameters when
paths fail.
"""

from paramsweep.poly import (
    ParamSystem,
    InstantiatedSystem,
    Term,
    ParseError,
    parse_system,
    format_system,
    variable_degrees,
    instantiate,
)

__version__ = "0.1.0"
