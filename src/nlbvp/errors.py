"""Exception hierarchy shared by all nlbvp modules.

Each class carries the CLI exit code of its errors as `exit_code`: 1 for
document and parameter errors, 2 for incompatible Neumann data, 3 for an
ill-posed problem.
"""


class NlbvpError(Exception):
    """Base class for all package errors."""
    exit_code = 1


# -- kernel / measure construction -------------------------------------------

class NonCommensurateGrid(NlbvpError):
    """A stencil target falls strictly between nodes of the measure."""


class IsolatedVertex(NlbvpError):
    """A graph vertex has no incident edge."""


class NonPositiveConductance(NlbvpError):
    """A graph edge carries a conductance <= 0."""


class AsymmetricDensity(NlbvpError):
    """A quadrature density violates gamma(x, y) = gamma(y, x)."""


# -- assembly and operator application ----------------------------------------

class AsymmetricKernel(NlbvpError):
    """Kernel/measure pair fails the symmetry-defect threshold."""


class DimensionMismatch(NlbvpError):
    """Vector length does not match the domain ordering."""


class NodeNotInOmega(NlbvpError):
    """Operator applied at a node outside the interior region."""


class NodeNotInGamma(NlbvpError):
    """Boundary operator applied at a node outside the nonlocal boundary."""


# -- analysis ------------------------------------------------------------------

class EigensolverFailure(NlbvpError):
    """ARPACK's shift-invert Lanczos failed (no convergence or a bad pencil)."""


class NonPositiveC(NlbvpError):
    """Regularization constant for the trace weight must be positive."""


class EmptyGamma(NlbvpError):
    """Maximum principle is vacuous: the nonlocal boundary is empty."""


# -- solvers -------------------------------------------------------------------

class FriedrichsViolated(NlbvpError):
    """Interior block is singular; the Dirichlet problem is not well-posed."""
    exit_code = 3


class PoincareViolated(NlbvpError):
    """No spectral gap above the nullspace; Neumann problem ill-posed."""
    exit_code = 3


class IncompatibleData(NlbvpError):
    """Neumann load fails the compatibility condition against the nullspace."""
    exit_code = 2


class NoConvergence(NlbvpError):
    """Iterative solver exceeded its iteration cap."""


class SingularAfterRegularization(NlbvpError):
    """Zeroth-order term did not remove the numerical kernel."""
    exit_code = 3


# -- benchmark -----------------------------------------------------------------

class HypothesisViolated(NlbvpError):
    """Matrix fails the non-negative-type hypothesis of the discrete maximum principle."""


class BadStep(NlbvpError):
    """Grid step must be the reciprocal of an integer >= 2."""


# -- documents -----------------------------------------------------------------

class DocumentError(NlbvpError):
    """Problem document is missing fields or contains invalid data."""
