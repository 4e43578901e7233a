"""hcppbench server process: one durable HCPP deployment on AsyncTransport.

Started by ``run.py`` (never by hand in a measurement).  Builds the
system from ``--seed`` and binds, on one AsyncTransport on 127.0.0.1:

* the S-server as a federation: router + 2 durable shards under
  ``--data-dir`` (journal fsync policy ``always``, no snapshots);
* the durable state A-server.

It signs the on-duty physician in, routes the P-device's address to the
load process (``--pdevice-port``, where the step-3 passcode push goes)
and prints ``READY {"sserver": port, "aserver": port}``.  Binding over
an existing data dir *is* crash recovery, so the same command restarts
the server after a kill -9.

Control lines on stdin (one reply line each on stdout): ``trace on``,
``trace off``, ``dump PATH`` (write the recorded spans as JSONL, reply
``DUMPED <index-cache stats delta>``), ``quit`` (reply ``BYE``).  End of
stdin also quits, so the server never outlives its load process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import workloads  # noqa: E402  (needs the src path above)
from repro.core.federation import bind_federated_sserver  # noqa: E402
from repro.sse.index import index_cache_stats  # noqa: E402
from repro.store import DurableStore, bind_durable_aserver  # noqa: E402
from repro.net.transport import AsyncTransport  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--pdevice-port", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="wrap layer entry points; record spans while "
                             "'trace on'")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from trace import Tracer
        tracer = Tracer("server")
        tracer.install()
    system = workloads.deployment_system(args.seed)
    transport = AsyncTransport()
    bind_federated_sserver(transport, system.sserver, workloads.N_SHARDS,
                           data_dir=args.data_dir)
    bind_durable_aserver(transport, system.state,
                         DurableStore(args.data_dir, "aserver",
                                      fsync_policy=workloads.FSYNC_POLICY))
    physician = system.any_physician()
    system.state.sign_in(physician.hospital, physician.physician_id)
    transport.add_route(system.pdevice.address, "127.0.0.1",
                        args.pdevice_port)
    print("READY " + json.dumps({
        "sserver": transport.port_of(system.sserver.address),
        "aserver": transport.port_of(system.state.address)}), flush=True)

    cache_before = dict(index_cache_stats)
    for line in sys.stdin:
        command = line.split()
        if command == ["trace", "on"] and tracer is not None:
            cache_before = dict(index_cache_stats)
            tracer.enabled = True
            reply = "OK"
        elif command == ["trace", "off"] and tracer is not None:
            tracer.enabled = False
            reply = "OK"
        elif len(command) == 2 and command[0] == "dump" and tracer:
            tracer.dump(command[1], tracer.take())
            reply = "DUMPED " + json.dumps(
                {key: index_cache_stats[key] - cache_before.get(key, 0)
                 for key in index_cache_stats})
        elif command == ["quit"]:
            break
        else:
            reply = "ERROR unknown command %r" % line.strip()
        print(reply, flush=True)
    transport.close()
    print("BYE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
