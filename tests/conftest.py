import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests build dense matrices of up to 2^5 x 2^5; on a loaded machine
# one example can exceed hypothesis' 200 ms deadline.  A fixed example
# sequence makes every run test the same cases.
settings.register_profile("qblue", deadline=None, derandomize=True)
settings.load_profile("qblue")
