import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy is loaded, as the benchmark does: the
# low-order bits of solver output depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).parent))
