"""The two policies for a derived object: refuse it, then build it once.

Refuse: chain spaces grow like r * d**n, so a careless degree bound can
ask for billions of coordinates.  Every routine that materializes a
complex checks its largest space against the cap below (`guard`) before
allocating, and an algebra checks its d**3 structure constants, the
work of validating it, before it builds its product table.  The check
comes before the cache lookup too, so a lowered cap refuses an object
that was built under a higher one.

Build once: a differential, bar term, solver, product table or class
space is built on first use and kept in the `_cache` dict of its owner
(an algebra, a bimodule, a `complexes.Normalized` or a morphism), all
through `cached`; bimodules with equal actions share one (`Bimodule`).
Nothing kept there points back at its owner, and an algebra holds the
caches of its bimodules only weakly, so dropping the last owner of a
cache frees it by reference counting.
"""

from .errors import MemoryGuardError

# default cap: 2**24 coordinates in any single chain or cochain space
_DEFAULT_CAP = 1 << 24
_max_coordinates = _DEFAULT_CAP


def max_coordinates():
    return _max_coordinates


def set_max_coordinates(n):
    global _max_coordinates
    if n is not None and n < 1:
        raise ValueError("coordinate cap must be positive")
    _max_coordinates = _DEFAULT_CAP if n is None else int(n)


def guard(ncoords, what):
    """Raise MemoryGuardError if `what`, a space of ncoords coordinates,
    is too big."""
    if ncoords > _max_coordinates:
        raise MemoryGuardError(
            f"refusing to allocate {ncoords} coordinates for {what} "
            f"(cap is {_max_coordinates}; raise it with set_max_coordinates "
            f"or --memory-cap)"
        )


def cached(owner, key, build):
    """owner._cache[key], built by build() on first use."""
    cache = owner._cache
    if key not in cache:
        cache[key] = build()
    return cache[key]
