//! Camera-motion extrapolation (dead reckoning): the natural alternative
//! to the paper's `T_visible` table lookup.
//!
//! Instead of pre-sampling Ω, one can extrapolate the camera's recent
//! motion — rotate the current view direction by the same arc it just
//! traversed, repeat the distance change — and compute exact visibility at
//! the extrapolated pose. The ablation bench compares both: extrapolation
//! needs no pre-processing and is exact *when motion is smooth*, but it
//! carries a per-frame visibility computation and whiffs whenever the user
//! changes direction — precisely the "random or nearly randomly" behaviour
//! the paper designs for (§I).

use viz_geom::{CameraPose, Quat};

/// Extrapolate the next camera pose from the last two poses: apply the same
/// direction rotation again and repeat the (log-space) distance step.
/// With a single pose (or identical poses) the prediction is the current
/// pose itself.
pub(crate) fn extrapolate_pose(prev: Option<&CameraPose>, current: &CameraPose) -> CameraPose {
    let Some(prev) = prev else {
        return *current;
    };
    let d_prev = prev.distance().max(1e-9);
    let d_cur = current.distance().max(1e-9);
    let dir_prev = prev.view_direction();
    let dir_cur = current.view_direction();
    // Rotation that carried prev → current, applied once more.
    let arc = Quat::between(dir_prev, dir_cur);
    let dir_next = arc.rotate(dir_cur).normalize();
    // Log-space distance extrapolation (matches zoom semantics).
    let d_next = (2.0 * d_cur.ln() - d_prev.ln()).exp();
    CameraPose::from_direction_distance(dir_next, d_next, current.center, current.view_angle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_geom::angle::{deg_to_rad, rad_to_deg};
    use viz_geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};

    #[test]
    fn no_history_predicts_current() {
        let pose = CameraPose::orbit(40.0, 70.0, 2.5, 15.0);
        let p = extrapolate_pose(None, &pose);
        assert_eq!(p, pose);
    }

    #[test]
    fn constant_orbit_is_predicted_exactly() {
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        let poses = SphericalPath::new(dom, 2.5, 7.0, deg_to_rad(15.0)).generate(5);
        let predicted = extrapolate_pose(Some(&poses[1]), &poses[2]);
        // A great-circle orbit with constant step: the extrapolated pose
        // must coincide with the actual next pose.
        assert!(
            predicted.position.distance(poses[3].position) < 1e-9,
            "off by {}",
            predicted.position.distance(poses[3].position)
        );
    }

    #[test]
    fn stationary_camera_predicts_itself() {
        let pose = CameraPose::orbit(40.0, 70.0, 2.5, 15.0);
        let p = extrapolate_pose(Some(&pose), &pose);
        assert!(p.position.distance(pose.position) < 1e-9);
    }

    #[test]
    fn zoom_is_extrapolated_geometrically() {
        let center = Vec3::ZERO;
        let a = CameraPose::from_direction_distance(Vec3::X, 4.0, center, 0.5);
        let b = CameraPose::from_direction_distance(Vec3::X, 2.0, center, 0.5);
        let p = extrapolate_pose(Some(&a), &b);
        // 4 → 2 → predicted 1 (geometric).
        assert!((p.distance() - 1.0).abs() < 1e-9, "d = {}", p.distance());
    }

    #[test]
    fn rotation_step_is_repeated() {
        let a = CameraPose::orbit(90.0, 0.0, 2.5, 15.0);
        let b = CameraPose::orbit(90.0, 10.0, 2.5, 15.0);
        let p = extrapolate_pose(Some(&a), &b);
        let step = rad_to_deg(b.direction_change(&p));
        assert!((step - 10.0).abs() < 1e-6, "extrapolated step {step}");
    }

    #[test]
    fn view_angle_and_center_are_preserved() {
        let a = CameraPose::orbit(10.0, 0.0, 2.5, 22.0);
        let b = CameraPose::orbit(10.0, 5.0, 2.6, 22.0);
        let p = extrapolate_pose(Some(&a), &b);
        assert_eq!(p.view_angle, b.view_angle);
        assert_eq!(p.center, b.center);
    }
}
