"""Domain errors raised by the protocol modules.

Every error that crosses a module boundary subclasses InteropError so
callers can catch the whole family.  Names are part of the API surface:
workload outcome records and CLI output report the class name.
"""


class InteropError(Exception):
    """Base class for all protocol-level failures."""


class PermissionDenied(InteropError):
    """Credential lacks the required write or read privilege."""


class SemanticMismatch(InteropError):
    """Unit or candidate semantic type does not match the chain's."""


class Unreachable(InteropError):
    """Chain cannot be reached (partitioned or no live gateway)."""


class NotFound(InteropError):
    """No ledger entry, asset, or mask entry for the given identifier."""


class NotConfirmed(InteropError):
    """Referenced entry exists but is not confirmed yet."""


class InvalidProof(InteropError):
    """Attestation proof failed verification."""


class StaleAuthority(InteropError):
    """Rebind names a from_chain that is no longer the asset's home."""


class GrantExpired(InteropError):
    """Delegation grant expiry tick has passed."""


class GrantMismatch(InteropError):
    """Grant does not cover this requester or this identifier."""


class InsufficientGateways(InteropError):
    """Fewer live gateways than the vouch threshold requires."""


class NoLiveGateways(InteropError):
    """A side of a transfer has no live gateway at all."""


class NoPeering(InteropError):
    """No active peering agreement covers the chain pair and semantic."""


class NotAuthoritativeHere(InteropError):
    """Asset's resolver home differs from the claimed source chain."""


class DuplicateAgreement(InteropError):
    """An active agreement for the same parties already overlaps."""


class AlreadyTerminal(InteropError):
    """Transfer is already in a terminal state."""


class NoRoute(InteropError):
    """No connector path exists for the requested payment."""


class Overloaded(InteropError):
    """A connector on the chosen path cannot cover the reservation."""


class PathExpired(InteropError):
    """Reservation expired before settlement."""


class EmptyCandidates(InteropError):
    """App transaction declares a sub-transaction with no candidates."""


class ParseError(InteropError):
    """Scenario file is not well-formed, or an input file is not text."""


class ValidationError(InteropError):
    """Scenario parsed but violates the schema; carries all problems."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
