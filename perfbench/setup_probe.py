"""Time one set-up in a fresh process: import marginsim, load the scenario
and build its datacenter.  Prints one JSON line with the speed-scaled and
wall seconds taken (see speed.py) and where marginsim was imported from.

    python3 perfbench/setup_probe.py SCENARIO
"""

import sys

from speed import SpeedProbe


def set_up(scenario: str):
    import marginsim
    from marginsim.config import load_scenario

    load_scenario(scenario).build_datacenter()
    return marginsim


marginsim, timing = SpeedProbe().time(set_up, sys.argv[1])

import json  # noqa: E402

print(json.dumps({"setup_s": timing.scaled_s, "setup_wall_s": timing.wall_s,
                  "module": marginsim.__file__}))
