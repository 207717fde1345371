from .cam import GradCamError, Heatmap, cam_from_capture, gradcam, normalize_unit, upsample_linear
from .render import JET_STOPS, blend_overlay, jet_ramp, render_overlay, write_pnm

__all__ = [
    "Heatmap", "gradcam", "cam_from_capture", "normalize_unit",
    "upsample_linear", "GradCamError",
    "render_overlay", "blend_overlay", "jet_ramp", "JET_STOPS",
    "write_pnm",
]
