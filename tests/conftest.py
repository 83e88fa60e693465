import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests build dense matrices of up to 2^5 x 2^5; on a loaded machine
# one example can exceed hypothesis' 200 ms deadline.  A fixed example
# sequence makes every run test the same cases.
settings.register_profile("qblue", deadline=None, derandomize=True)
# A deeper run of the same fixed sequence, chosen on the command line with
# --hypothesis-profile qblue-deep: 1,000 examples per property.
settings.register_profile("qblue-deep", settings.get_profile("qblue"),
                          max_examples=1000)
settings.load_profile("qblue")
