"""Group-theoretic machinery: presentations, coset enumeration, finite
groups, quaternionic models, and representation counting."""
