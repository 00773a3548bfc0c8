"""Developer tools, each runnable as a script and importable by the tests."""
