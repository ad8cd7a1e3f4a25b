"""Chat-translation data toolkit: corpus filtering, chat corpus
construction, target denoising, and diversity-aware ensemble selection.

Names are imported from their modules (`chatmt.corpus`, `chatmt.filtering`,
`chatmt.chatprep`, `chatmt.denoise`, `chatmt.ensemble`, `chatmt.attention`);
the package itself imports none of them, so `import chatmt.cli` does not
load numpy, which only denoise's random draws and the attention kernels
need.
"""

__version__ = "0.1.0"
