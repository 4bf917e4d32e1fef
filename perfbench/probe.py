"""Set-up probe: import the CLI, then read and scale one input, and exit.

    python3 perfbench/probe.py INPUT.csv

The benchmark times this process from start to exit as `setup_s`.  It
prints the path of the imported CLI module so the caller can confirm
that the checkout's own sources were used.
"""

import sys

import chsa.cli

cloud = chsa.cli.pointcloud.read_csv(sys.argv[1])
chsa.cli.pointcloud.scale_unit(cloud)
print(chsa.cli.__file__)
