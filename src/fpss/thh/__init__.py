"""Concrete spectral sequence instances: seeds, rules, scripts, and oracles."""
