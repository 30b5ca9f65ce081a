"""Hot-loop kernels with a compiled fast path.

``BACKEND`` records which implementation was selected at import time.
"""

try:
    from . import _fast as _impl

    BACKEND = "compiled"
except ImportError:  # extension not built
    from . import reference as _impl

    BACKEND = "python"

from . import reference

centralizer_masks = _impl.centralizer_masks
