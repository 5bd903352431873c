pragma solidity ^0.8.0;

// Declarations with comments wherever Solidity allows them: between the
// `function` keyword and the name, and inside a parameter list.
contract Commented {
    address internal owner;

    /// Doubles a.
    function /* hi */ twice(uint256 a) public pure returns (uint256) {
        return a * 2;
    }

    /// Halves a.
    function // note
        half(uint256 a) public pure returns (uint256) {
        return a / 2;
    }

    /// Adds a to b, both in wei.
    function add(uint256 a /* (wei) */, uint256 b) public pure returns (uint256) {
        return a + b;
    }

    /// The larger of a and b.
    function larger(
        uint256 a, // first, larger
        uint256 b
    ) public pure returns (uint256) {
        return a > b ? a : b;
    }

    /// Twice a, for the owner only.
    function /* guarded */ ownerTwice(uint256 a) public view returns (uint256) {
        require(msg.sender == owner);
        return twice(a);
    }

    /// A quarter of the owner's twice a.
    function /* function half( */ quarterTwice(uint256 a) public view returns (uint256) {
        return ownerTwice(a) / 4;
    }
}
