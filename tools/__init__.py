"""Repository tooling that checks this code and ships with no product.

Run each tool from the repository root as ``python -m tools.<name>``.
"""
