"""2D torus interconnect model: topology, routing and traffic accounting."""

from repro.interconnect.network import TrafficAccountant
from repro.interconnect.torus import TorusTopology

__all__ = ["TorusTopology", "TrafficAccountant"]
