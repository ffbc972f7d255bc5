#!/usr/bin/env python3
"""Quickstart: run a real GRIS on this machine and query it over TCP.

Starts a Grid Resource Information Service publishing *this host's*
actual configuration, load average, and disk space, then talks to it
with the LDAP client exactly the way an MDS-2 user would::

    python examples/quickstart.py

Everything rides the real wire protocol over loopback TCP.
"""

import os
import platform

from repro.gris import (
    DynamicHostProvider,
    GrisBackend,
    HostConfig,
    StaticHostProvider,
    StorageProvider,
    real_filesystem_stat,
    real_load_sensor,
)
from repro.ldap.client import LdapClient
from repro.ldap.dit import Scope
from repro.ldap.ldif import format_ldif
from repro.ldap.server import LdapServer
from repro.net.clock import WallClock
from repro.net.reactor import ReactorEndpoint


def main() -> None:
    hostname = platform.node() or "localhost"

    # -- 1. configure a GRIS for this machine --------------------------------
    # The suffix is the host's own entry; the static provider publishes it.
    suffix = f"hn={hostname}, o=Quickstart"
    gris = GrisBackend(suffix, clock=WallClock())
    gris.add_provider(
        StaticHostProvider(
            HostConfig(
                hostname,
                system=platform.system().lower(),
                os_version=platform.release(),
                cpu_type=platform.machine(),
                cpu_count=os.cpu_count() or 1,
            ),
            base="",
        )
    )
    gris.add_provider(
        DynamicHostProvider(hostname, real_load_sensor, cache_ttl=5.0, base="")
    )
    gris.add_provider(
        StorageProvider(hostname, "root", "/", real_filesystem_stat("/"), base="")
    )

    # -- 2. serve it over real TCP -------------------------------------------
    endpoint = ReactorEndpoint()
    server = LdapServer(gris, name="quickstart-gris")
    port = endpoint.listen(0, server.handle_connection)
    print(f"GRIS for {hostname} listening on ldap://127.0.0.1:{port}/{suffix}\n")

    # -- 3. query it like any GRIP consumer ----------------------------------
    client = LdapClient(endpoint.connect(("127.0.0.1", port)))

    print("== full subtree ==")
    out = client.search(suffix, Scope.SUBTREE, "(objectclass=*)")
    print(format_ldif(out.entries))

    print("== just the load average, selected attributes ==")
    out = client.search(
        suffix, Scope.SUBTREE, "(objectclass=loadaverage)", attrs=["load1", "load5"]
    )
    for entry in out.entries:
        print(f"  {entry.dn}: load1={entry.first('load1')} load5={entry.first('load5')}")

    print("\n== a broker-style qualitative query ==")
    out = client.search(
        suffix, Scope.SUBTREE, f"(&(objectclass=computer)(cpucount>={os.cpu_count() or 1}))"
    )
    verdict = "would" if out.entries else "would NOT"
    print(f"  this machine {verdict} match a job needing {os.cpu_count()} CPUs")

    client.unbind()
    endpoint.close()
    print("\ndone.")


if __name__ == "__main__":
    main()
