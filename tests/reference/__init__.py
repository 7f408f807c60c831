"""Frozen reference implementations: parity oracles for the fast paths."""
