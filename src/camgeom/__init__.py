"""camgeom: camera-aware geometry toolkit.

Pinhole intrinsic algebra, ray-embedding grids, depth unprojection,
camera-consistent augmentation, oriented-3D-IoU detection scoring, and the
focal-depth / size-depth ambiguity experiments.

The package exports ``errors``, ``__version__`` and each library module's
``__all__``, where each public name is declared once; ``fileio`` and ``cli`` are
imported by module name.  ``camgeom.augment`` is the function, also after
``import camgeom.augment``.
"""

from . import ambiguity, augment as _augment, boxes, camera, depthmap, errors, evaluation, rays, transforms
from .camera import *
from .transforms import *
from .rays import *
from .depthmap import *
from .augment import *  # binds the function augment over the submodule of that name
from .boxes import *
from .evaluation import *
from .ambiguity import *

__version__ = "0.1.0"

__all__ = ["errors", "__version__", *camera.__all__, *transforms.__all__, *rays.__all__, *depthmap.__all__,
           *_augment.__all__, *boxes.__all__, *evaluation.__all__, *ambiguity.__all__]
