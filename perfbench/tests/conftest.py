import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

# the benchmark's modules are top-level modules next to run.py, and bellhop
# comes from the checkout's src, as when run.py is started
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
