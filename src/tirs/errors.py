"""Exception types shared across the toolkit."""


class TirsError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(TirsError):
    """A malformed structure or generation request."""


class NotAPartialOrder(TirsError):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"cover relation has a cycle through {self.cycle}")


class NotALattice(TirsError):
    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind  # "join" or "meet"
        super().__init__(f"pair {pair} has no unique {kind}")


class NoBounds(TirsError):
    pass


class DegenerateLattice(TirsError):
    pass


class MismatchedCarrier(TirsError):
    pass


class NotTiRS(TirsError):
    def __init__(self, condition, witnesses=()):
        self.condition = condition
        self.witnesses = tuple(witnesses)
        super().__init__(f"structure fails condition {condition}")


class NotRS(NotTiRS):
    pass


class IsoVerificationFailed(TirsError):
    pass


class NotWellDefined(TirsError):
    pass


class HNotPreserved(TirsError):
    pass


class NotPerfect(TirsError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is not recoverable from irreducibles")


class IrreducibleMismatch(TirsError):
    pass


class EmbeddingNotOnto(TirsError):
    pass


class SizeUnreachable(TirsError):
    pass


class UnsupportedKind(TirsError):
    pass
