"""Time one set-up in a fresh interpreter: import entrogeo, load the configs.

Usage: ``python3 bench/setup_probe.py SRC_DIR CONFIG...``; prints seconds.
``run.py`` starts this a few times so that ``setup_s`` is a median of
several cold imports, which one process cannot repeat.
"""

import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[1])
    import entrogeo.cli  # noqa: F401  (the import is what is timed)
    from entrogeo.config import load_config

    for path in argv[2:]:
        load_config(path)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
