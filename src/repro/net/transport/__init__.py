"""Pluggable transports carrying serialized protocol frames.

Protocol functions accept either a :class:`~repro.net.sim.Network` (the
historical signature) or any :class:`Transport`; :func:`as_transport`
adapts the former.  All three backends speak the same frame bytes, so a
protocol run is byte-for-byte identical whether dispatch happens by
function call, through the discrete-event simulator, or pipelined over
real TCP between OS processes on the multiplexed backend, which its
calling threads drive without an event loop.
"""

from repro.net.transport.asyncnet import AsyncTransport
from repro.net.transport.base import FrameRecord, Transport
from repro.net.transport.faults import (FaultPlan, FaultPolicy, RetryPolicy,
                                        parse_fault_spec)
from repro.net.transport.loopback import LoopbackTransport
from repro.net.transport.simnet import SimTransport, as_transport

__all__ = ["FrameRecord", "Transport", "AsyncTransport",
           "LoopbackTransport", "SimTransport", "as_transport",
           "FaultPlan", "FaultPolicy", "RetryPolicy", "parse_fault_spec"]
