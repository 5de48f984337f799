"""Simulation and verification toolkit for covert communication aided by an
uninformed jammer: channel/signal synthesis, the warden's optimal detectors,
Monte Carlo error-rate estimation, structural-property certification, and
receiver-side throughput."""

__version__ = "0.1.0"
