"""Deterministic discrete-event simulation of a secured beaconing highway."""
