"""Secure vehicular beaconing stack and deterministic highway simulator.

Layers, bottom up: signature suites and clocks, a software reference HSM,
pseudonym identity management, a hook framework for wiring security handlers
into a communication stack, beaconing with certificate omission and budgeted
verification, an in-vehicle gateway firewall with anomaly detection, and a
discrete-event simulator that measures the overhead and safety impact of the
whole stack.

The package re-exports nothing: import each name from its submodule.
"""
