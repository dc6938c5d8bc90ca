"""Simulator-cost benchmark for the Oasis reproduction (see README.md)."""
