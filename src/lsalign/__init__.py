"""Label-synchronous speech-to-text alignment toolkit."""

__version__ = "0.1.0"
