"""A frame's gammas read from its own derived vectors b_mu = u~ E_mu u: an
oracle for the package, which computes on the fiducial representative and
never reads them."""


def gamma_lower(frame, mu):
    """The lower-index gamma b_mu."""
    return frame.frame.vectors[mu]


def gamma_upper(frame, mu):
    """The upper-index gamma: g^0 = b_0 and g^i = -b_i."""
    v = frame.frame.vectors[mu]
    return v if mu == 0 else -v
