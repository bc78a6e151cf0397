"""Set-up cost in a fresh interpreter: import the CLI, load and build a config.

Usage: python3 setup_probe.py SRC_DIR CONFIG_YAML
Prints one JSON object: import_s, config_s and modules_loaded.
"""

import sys
import time

if __name__ == "__main__":
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    before = len(sys.modules)
    t0 = time.perf_counter()
    import liese_nav.cli as cli

    t1 = time.perf_counter()
    cli.build_scenario(cli.load_config(config))
    t2 = time.perf_counter()
    if not cli.__file__.startswith(src):
        sys.exit(f"liese_nav imported from {cli.__file__}, not from {src}")
    print(
        f'{{"import_s": {t1 - t0!r}, "config_s": {t2 - t1!r}, '
        f'"modules_loaded": {len(sys.modules) - before}}}'
    )
