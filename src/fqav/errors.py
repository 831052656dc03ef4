"""Exception hierarchy shared by all modules."""


class FqavError(Exception):
    """Base class for all toolkit errors."""


class InputError(FqavError):
    """Invalid user input: bad schema, non-endomorphism blocks, non-torsion
    translations, or a group closure that exceeds its cap; ``code`` names
    the fault, as the CLI prints it: ``error[code]: message``."""

    def __init__(self, message, *, code):
        super().__init__(message)
        self.code = code


class CertificateError(FqavError):
    """An internal theorem-level check failed.  This always indicates a bug,
    never bad input; the CLI maps it to exit code 2."""
