"""Embedding-based zero-shot text classification with LLM-refined category definitions."""

__version__ = "0.1.0"
