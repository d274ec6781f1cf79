"""The process entry point: ``python -m tracebw``, ``python -m tracebw.cli``
and the ``tracebw`` script.

All three run :func:`entry`. Once the package and :mod:`tracebw.cli` are
imported, it moves every object the process holds, those the imports made
included, into the cyclic garbage collector's permanent generation
(``gc.freeze()``), and then runs the command. No later collection walks those objects again: not the
collections at interpreter exit, which would walk the whole heap, and not
a collection in a forked worker, which would also copy the pages it
touches. The command's own objects are collected as before.

A caller that runs :func:`tracebw.cli.main` in its own process never
freezes: that would keep every cycle made before each call for the
caller's lifetime.
"""

import gc
import sys

from .cli import main


def entry() -> int:
    """Run the command named by ``sys.argv`` in this process; return its exit status."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
