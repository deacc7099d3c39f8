"""`python -m mdtk`: the command line interface of `mdtk.catalog_cli`."""

import sys

from .catalog_cli import main

# guarded, so that importing every submodule of mdtk does not run the CLI
if __name__ == "__main__":
    sys.exit(main())
