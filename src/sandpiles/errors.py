"""Exception types shared across the package."""

from __future__ import annotations


class SandpileError(Exception):
    """Base class for all errors raised by this package."""


# -- graph construction ------------------------------------------------------

class LoopEdge(SandpileError):
    pass


class UnknownVertex(SandpileError):
    pass


class NonPositiveMultiplicity(SandpileError):
    pass


class DisconnectedGraph(SandpileError):
    pass


class EmptyContractionSet(SandpileError):
    pass


# -- exact linear algebra ----------------------------------------------------

class SingularReducedLaplacian(SandpileError):
    """Determinant zero: no global sink / disconnected graph."""


class InfiniteCokernel(SandpileError):
    def __init__(self, free_rank: int):
        super().__init__(f"cokernel has free rank {free_rank}")
        self.free_rank = free_rank


# -- dynamics ----------------------------------------------------------------

class NoGlobalSink(SandpileError):
    pass


class NotUndirected(SandpileError):
    pass


class OrbitTooLarge(SandpileError):
    pass


class GraphMismatch(SandpileError):
    pass


# -- homomorphisms -----------------------------------------------------------

class NotSurjective(SandpileError):
    pass


class ClauseViolation(SandpileError):
    """A uniform-homomorphism clause failed; carries the clause name and a witness."""

    def __init__(self, clause: str, witness):
        super().__init__(f"{clause}: {witness!r}")
        self.clause = clause
        self.witness = witness


class PreconditionViolated(SandpileError):
    def __init__(self, clause: str):
        super().__init__(clause)
        self.clause = clause


class NotBiregular(SandpileError):
    pass


class ValidationFailed(SandpileError):
    """An internally constructed object failed its own validation (a bug)."""


# -- products ----------------------------------------------------------------

class ContextMismatch(SandpileError):
    pass


class OutOfRange(SandpileError):
    pass


# -- serialization -----------------------------------------------------------

class FormatError(SandpileError):
    pass
