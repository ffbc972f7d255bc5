"""Command-line tools: grid-info-search / grid-info-server / grid-info-trace / grid-info-top.

These mirror the Globus deployment commands (``grid-info-search`` was
how operators queried MDS): a client CLI printing LDIF, a server CLI
that runs a GRIS from a configuration file over real TCP, a trace
viewer that merges per-server span exports into one tree per query,
and a fleet monitor that polls servers' self-published health.

Each tool is its own submodule, run as ``python -m repro.tools.<tool>``;
the package imports none of them, so ``-m`` executes each module once.
"""
