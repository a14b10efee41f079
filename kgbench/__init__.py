"""Knowledge-graph construction and query benchmark (see README.md)."""
