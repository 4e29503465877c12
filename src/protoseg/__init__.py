"""Few-shot semantic segmentation on synthetic scenes.

A small segmentation model is trained on base classes with a cosine-scored
prototype classifier; novel classes are registered afterwards from a handful
of support samples by mask-average pooling, while base prototypes can absorb
support context through a learned fusion gate. Everything runs on a built-in
reverse-mode tensor core and a deterministic synthetic dataset.

The package root exports nothing: import from the modules, such as
``protoseg.protocols`` or ``protoseg.tensor``.
"""
