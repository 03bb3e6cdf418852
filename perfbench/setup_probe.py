"""Set-up probe: import minvec.cli, parse the command line and the inputs.

Usage: python setup_probe.py CLI_ARGS...

Does what a CLI run does before its first stage, then exits; the caller
times the whole process, so interpreter start-up is included.
"""

import json
import sys
from pathlib import Path

import minvec.cli as cli
from minvec import datafiles


def main(argv) -> int:
    args = cli.build_parser().parse_args(argv)
    paths = [Path(args.datum)] if args.command == "verify" else \
        sorted(Path(args.data_dir).glob("*.json"))
    for path in paths:
        kind = json.loads(path.read_text()).get("kind", "supercuspidal")
        load = datafiles.load_query if kind == "lattice-query" else \
            datafiles.load_datum
        load(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
