"""grid-info-search: query a GRIS/GIIS over TCP and print LDIF.

Mirrors the classic MDS client::

    grid-info-search -h gris.example.org -p 2135 \
        -b "hn=hostX, o=Grid" -s sub "(objectclass=loadaverage)" load5 load15
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..ldap.client import LdapClient, LdapError
from ..ldap.dit import Scope
from ..ldap.ldif import format_ldif
from ..net.reactor import ReactorEndpoint
from ..net.transport import ConnectionClosed

__all__ = ["main"]

_SCOPES = {"base": Scope.BASE, "one": Scope.ONELEVEL, "sub": Scope.SUBTREE}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grid-info-search",
        description="Search a Grid information service (GRIS or GIIS).",
    )
    parser.add_argument("-H", "--host", default="127.0.0.1", help="server host")
    parser.add_argument("-p", "--port", type=int, default=2135, help="server port")
    parser.add_argument("-b", "--base", default="", help="search base DN")
    parser.add_argument(
        "-s",
        "--scope",
        choices=sorted(_SCOPES),
        default="sub",
        help="search scope",
    )
    parser.add_argument(
        "-z", "--size-limit", type=int, default=0, help="server-side size limit"
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="client timeout in seconds"
    )
    parser.add_argument(
        "--credential",
        default=None,
        help="GSI credential file (JSON) for an authenticated bind",
    )
    parser.add_argument(
        "--target",
        default=None,
        help="service name to bind against (default ldap://HOST:PORT/)",
    )
    parser.add_argument("filter", nargs="?", default="(objectclass=*)")
    parser.add_argument("attrs", nargs="*", help="attributes to return (default all)")
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    endpoint = ReactorEndpoint()
    try:
        conn = endpoint.connect((args.host, args.port))
    except ConnectionClosed as exc:
        print(f"grid-info-search: cannot connect: {exc}", file=sys.stderr)
        endpoint.close()
        return 2
    client = LdapClient(conn)
    if args.credential:
        import time

        from ..security.certs import CertError, credential_from_json
        from ..security.gsi import make_token

        try:
            with open(args.credential) as fh:
                credential = credential_from_json(fh.read())
        except (OSError, CertError) as exc:
            print(f"grid-info-search: bad credential: {exc}", file=sys.stderr)
            client.unbind()
            endpoint.close()
            return 2
        target = args.target or f"ldap://{args.host}:{args.port}/"
        token = make_token(credential, target, now=time.time())
        try:
            client.bind(mechanism="GSI", credentials=token, timeout=args.timeout)
        except LdapError as exc:
            print(f"grid-info-search: bind failed: {exc}", file=sys.stderr)
            client.unbind()
            endpoint.close()
            return 2
    try:
        result = client.search(
            args.base,
            _SCOPES[args.scope],
            args.filter,
            attrs=args.attrs,
            size_limit=args.size_limit,
            timeout=args.timeout,
            check=False,
        )
    except LdapError as exc:
        print(f"grid-info-search: {exc}", file=sys.stderr)
        return 2
    finally:
        client.unbind()
        endpoint.close()

    if result.entries:
        out.write(format_ldif(result.entries))
    for referral in result.referrals:
        out.write(f"# referral: {referral}\n")
    if not result.result.ok:
        print(f"grid-info-search: {result.result.describe()}", file=sys.stderr)
        return 1
    out.write(f"# {len(result.entries)} entries returned\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
